import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathsplit import netsim
from pathsplit.netsim import (
    PathModel,
    Protocol,
    SenderModel,
    SWEEP_CSV_COLUMNS,
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


def overhead(paths, sender, period, total_bytes, seed):
    """One transfer's overhead against the unswitched run on the same seed."""
    switched = simulate_transfer(paths, sender, period, total_bytes, seed)
    unswitched = simulate_transfer(paths, sender, None, total_bytes, seed)
    return 1.0 - switched.throughput_bytes_per_s / unswitched.throughput_bytes_per_s


def test_no_switching_is_the_baseline():
    assert overhead(paths(), QUIC, None, 5 * MB, seed=1) == 0.0


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
    baseline = simulate_transfer(paths(), QUIC, None, 2 * MB, seed=1)
    closed_form = QUIC.initial_cwnd_packets * QUIC.mss_bytes / (2 * RTT / 1e6)
    assert result.throughput_bytes_per_s == pytest.approx(closed_form, rel=0.05)
    assert result.throughput_bytes_per_s < 0.25 * baseline.throughput_bytes_per_s


def test_lossless_quic_restarts_cost_one_stall_and_rtt_each():
    # each 5 ms period ends inside the 50 ms stall plus 50 ms flight, so
    # every flight after the first restarts at 15,000 bytes: 10,000 MB is
    # 666,667 flights, taken in one fast-forward
    flights = -(-netsim.MAX_TOTAL_BYTES // 15_000)
    result = simulate_transfer(paths(), QUIC, 5_000, netsim.MAX_TOTAL_BYTES)
    assert result.elapsed_us == RTT + (flights - 1) * 2 * RTT


def test_wireguard_persistent_state_keeps_overhead_low():
    # per-path congestion state persists, so any period >= RTT costs only
    # the extra slow starts, bounded well under the no-loss ceiling
    for period in (RTT, 2 * RTT, 100_000, 300_000):
        result = simulate_transfer(paths(), WG, period, 10 * MB, seed=3)
        assert overhead(paths(), WG, period, 10 * MB, seed=3) < 0.05
        assert result.throughput_bytes_per_s <= BW  # analytic no-loss bound


def test_baseline_dominates_switched_runs():
    for sender in (QUIC, QUIC_CACHED, WG):
        for period in (30_000, 50_000, 100_000, 500_000):
            frac = overhead(paths(), sender, period, 5 * MB, seed=5)
            assert frac >= -0.01  # 1% numerical slack


def test_quic_overhead_exceeds_wireguard_at_fast_periods():
    for period in (20_000, 50_000, 100_000):
        q = overhead(paths(), QUIC, period, 5 * MB, seed=2)
        w = overhead(paths(), WG, period, 5 * MB, seed=2)
        assert q >= w


def test_sweep_throughput_non_increasing_as_period_shrinks():
    points = sweep_frequencies(paths(), QUIC, [10_000, 30_000, 100_000, 500_000],
                               5 * MB, repetitions=3, seed=4)
    assert [p.period_us for p in points] == [10_000, 30_000, 100_000, 500_000]
    for earlier, later in zip(points, points[1:]):
        assert earlier.mean_throughput_bps <= later.mean_throughput_bps + 0.02 * later.mean_throughput_bps


def test_validation_caching_dominates_pointwise():
    for period in (10_000, 50_000, 100_000, 500_000):
        uncached = overhead(paths(), QUIC, period, 5 * MB, seed=6)
        cached = overhead(paths(), QUIC_CACHED, period, 5 * MB, seed=6)
        assert cached <= uncached


def test_caching_strictly_better_near_rtt_period():
    # rotation revisits a validated path every n switches; uncached pays
    # one RTT per switch, cached only for the first visit of each path
    uncached = simulate_transfer(paths(), QUIC, RTT, 5 * MB, seed=6)
    cached = simulate_transfer(paths(), QUIC_CACHED, RTT, 5 * MB, seed=6)
    assert uncached.elapsed_us - cached.elapsed_us >= RTT


def test_caching_amortized_for_long_periods():
    uncached = overhead(paths(), QUIC, 2_000_000, 10 * MB, seed=6)
    cached = overhead(paths(), QUIC_CACHED, 2_000_000, 10 * MB, seed=6)
    assert abs(uncached - cached) < 0.05


def test_single_path_is_degenerate():
    switched = simulate_transfer(paths(1), QUIC, 50_000, 2 * MB, seed=8)
    plain = simulate_transfer(paths(1), QUIC, None, 2 * MB, seed=8)
    assert switched.elapsed_us == plain.elapsed_us
    assert overhead(paths(1), QUIC, 50_000, 2 * MB, seed=8) == 0.0


def test_lossy_run_still_dominated_by_baseline():
    result = simulate_transfer(paths(loss=0.01), QUIC, 100_000, 3 * MB, seed=11)
    assert overhead(paths(loss=0.01), QUIC, 100_000, 3 * MB, seed=11) >= -0.01
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
        sweep_frequencies(paths(), QUIC, [], MB)


def test_sweep_needs_a_repetition():
    with pytest.raises(ValueError, match="^repetitions must be >= 1$"):
        sweep_frequencies(paths(), QUIC, [10_000], MB, repetitions=0)


def test_transfer_size_is_capped(monkeypatch):
    # 1e300 MB once ran on with no end in sight
    too_big = netsim.MAX_TOTAL_BYTES + 1
    with pytest.raises(ValueError, match=f"^total_bytes must be at most {too_big - 1}, got"):
        simulate_transfer(paths(), QUIC, None, too_big)
    with pytest.raises(ValueError, match="^total_bytes must be at most"):
        sweep_frequencies(paths(), QUIC, [10_000], too_big, repetitions=1)
    # the cap itself is taken; a stub stands in for its 5e5 flights
    monkeypatch.setattr(netsim, "_run", lambda paths, sender, period, total, stream: (1, total))
    result = simulate_transfer(paths(), QUIC, None, netsim.MAX_TOTAL_BYTES)
    assert result.bytes_transferred == netsim.MAX_TOTAL_BYTES


def test_transfer_cap_shrinks_with_the_highest_loss_rate(monkeypatch):
    # at loss 0.99 a 10,000 MB transfer once asked for some 3.5e8 flights
    lossy = [PathModel(loss_rate=0.5), PathModel(loss_rate=0.99)]
    cap = netsim.max_total_bytes(0.99)
    assert cap == 100_000_000 and netsim.max_total_bytes(0.0) == netsim.MAX_TOTAL_BYTES
    message = f"^total_bytes must be at most {cap} at loss rate 0.99, got {cap + 1}$"
    with pytest.raises(ValueError, match=message):
        simulate_transfer(lossy, QUIC, None, cap + 1)
    with pytest.raises(ValueError, match=message):
        sweep_frequencies(lossy, QUIC, [10_000], cap + 1, repetitions=1)
    monkeypatch.setattr(netsim, "_run", lambda paths, sender, period, total, stream: (1, total))
    assert simulate_transfer(lossy, QUIC, None, cap).bytes_transferred == cap


def test_transfer_refuses_seeds_its_stream_would_fold():
    # stream_rng refuses seeds outside [0, 2**63); 2**63 once gave seed 0's transfer
    refusal = r"^seed must be in \[0, 9223372036854775808\), got"
    for bad in (-1, 2**63, 2**64):
        with pytest.raises(ValueError, match=refusal):
            simulate_transfer(paths(loss=0.01), WG, 10_000, 100_000, seed=bad)
    last = simulate_transfer(paths(loss=0.05), WG, 10_000, MB, seed=2**63 - 1)
    assert last != simulate_transfer(paths(loss=0.05), WG, 10_000, MB, seed=0)


def test_sweep_takes_every_seed_of_the_stream_range():
    # sweeps once folded seeds mod 2**48, so 2**48 swept the bytes of seed 0
    def sweep(seed):
        return sweep_frequencies(paths(loss=0.05), WG, [10_000], MB, repetitions=2,
                                 seed=seed)
    assert len({tuple(sweep(seed)) for seed in (0, 2**48, 2**63 - 1)}) == 3


def test_sweep_refuses_seeds_its_streams_would_fold():
    # stream_rng refuses seeds outside [0, 2**63); 2**63 once swept the bytes of seed 0
    for bad in (-1, 2**63, 2**64 + 7):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 9223372036854775808\), got"):
            sweep_frequencies(paths(), WG, [10_000], 100_000, repetitions=1, seed=bad)


def test_repetition_seeds_do_not_depend_on_the_repetition_count(monkeypatch):
    # repetition r transfers on a seed drawn from the stream (seed, r)
    calls = []
    real_transfer = netsim.simulate_transfer

    def recording_transfer(paths, sender, period, total_bytes, seed):
        calls.append((period, seed))
        return real_transfer(paths, sender, period, total_bytes, seed)

    monkeypatch.setattr(netsim, "simulate_transfer", recording_transfer)
    seeds = [int(netsim.stream_rng(5, netsim._STREAM_NETSIM, r).integers(2**63))
             for r in range(3)]
    assert len(set(seeds)) == 3
    for repetitions in (1, 3):
        calls.clear()
        sweep_frequencies(paths(), WG, [10_000, 20_000], 100_000, repetitions, seed=5)
        assert calls == [(period, seed) for period in (None, 10_000, 20_000)
                         for seed in seeds[:repetitions]]


def test_sweep_refuses_a_period_below_1us_before_any_transfer(monkeypatch):
    runs = []
    monkeypatch.setattr(netsim, "_run", lambda *args: runs.append(args) or (1, 1))
    for periods in ([10_000, 0], [0], [-5, 10_000]):
        with pytest.raises(ValueError, match=r"^switch_period_us must be >= 1, got -?\d"):
            sweep_frequencies(paths(), QUIC, periods, MB, repetitions=3)
    assert runs == []


def test_sweep_refuses_a_repeated_period_before_any_transfer(monkeypatch):
    runs = []
    monkeypatch.setattr(netsim, "_run", lambda *args: runs.append(args) or (1, 1))
    with pytest.raises(ValueError, match=r"^switching periods must be distinct, "
                                         r"got \[5000, 5000, 10000\]$"):
        sweep_frequencies(paths(), QUIC, [5_000, 5_000, 10_000], MB, repetitions=3)
    assert runs == []


def test_sender_protocol_takes_its_value_string():
    # "quic" once built a sender that simulated WireGuard roaming
    assert SenderModel(protocol="quic") == QUIC
    assert SenderModel(protocol="wireguard") == WG
    by_value = simulate_transfer(paths(), SenderModel(protocol="quic"), 20_000, 100_000)
    assert by_value == simulate_transfer(paths(), QUIC, 20_000, 100_000)
    assert by_value.elapsed_us == 650_000
    for bad in (0, None, b"quic"):
        with pytest.raises(TypeError, match="^protocol must be one of"):
            SenderModel(protocol=bad)


def test_wireguard_sender_refuses_validation_caching():
    # it once simulated plain WireGuard, a cache no WireGuard sender keeps
    with pytest.raises(ValueError, match="^validation_cache must be False unless protocol "
                                         "is quic, got True$"):
        SenderModel(Protocol.WIREGUARD_ROAMING, validation_cache=True)
    assert SenderModel("wireguard", validation_cache=False) == WG


@pytest.mark.parametrize("build, message", [
    (lambda: PathModel(rtt_us=50_000.5), "rtt_us must be an integer, got 50000.5"),
    (lambda: PathModel(bandwidth_bytes_per_s=True), "bandwidth_bytes_per_s must be an integer"),
    (lambda: PathModel(loss_rate=False), "loss_rate must be a number, got False"),
    (lambda: SenderModel(Protocol.QUIC_MIGRATION, mss_bytes=1500.0),
     "mss_bytes must be an integer, got 1500.0"),
])
def test_models_refuse_values_of_the_wrong_type(build, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}"):
        build()


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
    sweep_frequencies(paths(loss=0.01), WG, periods, 3000, repetitions=1025, seed=1)
    assert len(unswitched) == 1025


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
    # an unswitched run uses paths[0] and one congestion state only:
    # protocol, validation caching and the other paths must not change it
    stream = (seed, netsim._STREAM_NETSIM)
    expected = netsim._run(models[:1], QUIC, None, total_bytes, stream)
    for sender in (QUIC, QUIC_CACHED, WG):
        assert netsim._run(models, sender, None, total_bytes, stream) == expected
        result = simulate_transfer(models, sender, None, total_bytes, seed)
        assert (result.elapsed_us, result.bytes_transferred) == expected


# --- losses: Bernoulli per packet, as geometric gaps in one uniform stream


def _reference_run(paths, sender, switch_period_us, total_bytes, rng):
    """_run packet by packet: a packet survives while the gap is at least
    1, taking 1 off it, and is otherwise lost, the next gap drawn from rng
    at once. Returns (elapsed us, bytes acked, [(packets, losses) per
    flight])."""
    def fresh_gap(p):
        return math.log(1.0 - rng.random()) / math.log1p(-p) if p else math.inf

    mss = sender.mss_bytes
    initial_cwnd = float(sender.initial_cwnd_packets * mss)
    quic = sender.protocol is Protocol.QUIC_MIGRATION
    switching = switch_period_us is not None and len(paths) > 1
    cwnd = initial_cwnd
    ssthresh = math.inf
    cwnds = [initial_cwnd] * len(paths)
    ssthreshes = [math.inf] * len(paths)
    validated = {0}
    path = paths[0]
    gap = fresh_gap(path.loss_rate)
    flights = []
    t = acked = path_index = boundaries_done = 0
    while acked < total_bytes:
        if switching and t // switch_period_us > boundaries_done:
            due = t // switch_period_us
            if not quic:
                cwnds[path_index] = cwnd
                ssthreshes[path_index] = ssthresh
            path_index = (path_index + (due - boundaries_done)) % len(paths)
            boundaries_done = due
            if paths[path_index].loss_rate != path.loss_rate:
                gap = fresh_gap(paths[path_index].loss_rate)
            path = paths[path_index]
            if quic:
                if not (sender.validation_cache and path_index in validated):
                    t += path.rtt_us
                validated.add(path_index)
                cwnd = initial_cwnd
                ssthresh = math.inf
            else:
                cwnd = cwnds[path_index]
                ssthresh = ssthreshes[path_index]
        flight = min(int(cwnd), total_bytes - acked)
        n_packets = -(-flight // mss)
        losses = 0
        for _ in range(n_packets):
            if gap >= 1:
                gap -= 1
            else:
                losses += 1
                gap = fresh_gap(path.loss_rate)
        flights.append((n_packets, losses))
        delivered = max(flight - losses * mss, 0)
        t += max(path.rtt_us, -(-flight * 1_000_000 // path.bandwidth_bytes_per_s))
        acked += delivered
        if losses:
            ssthresh = max(cwnd / 2.0, 2.0 * mss)
            cwnd = ssthresh
        elif cwnd < ssthresh:
            cwnd += delivered
        else:
            cwnd += mss * mss * n_packets / cwnd
    return t, acked, flights


@st.composite
def transfers(draw):
    """(paths, sender, switch period, total bytes): 1-4 paths of any loss
    below 0.99, windows up to 4,000 packets, and lengths kept to some
    20,000 segments, fewer the lossier the worst path. Half the draws are
    QUIC over one path repeated 2-4 times, the only paths whose restart
    flights _run fast-forwards, with periods on both sides of its step:
    the next switch's stall plus one initial-window flight."""
    equal = draw(st.booleans())
    if equal:
        loss = draw(st.just(0.0) | st.floats(0.0, 0.05)
                    | st.floats(0.0, 0.99, exclude_max=True))
        models = [PathModel(rtt_us=draw(st.integers(1, 200_000)),
                            bandwidth_bytes_per_s=draw(st.integers(10_000, 100_000_000)),
                            loss_rate=loss)] * draw(st.integers(2, 4))
        protocol = Protocol.QUIC_MIGRATION
    else:
        losses = draw(st.lists(st.floats(0.0, 0.99, exclude_max=True),
                               min_size=1, max_size=4))
        models = [
            PathModel(rtt_us=draw(st.integers(1, 200_000)),
                      bandwidth_bytes_per_s=draw(st.integers(10_000, 100_000_000)),
                      loss_rate=loss)
            for loss in losses
        ]
        protocol = draw(st.sampled_from(Protocol))
    sender = SenderModel(
        protocol=protocol,
        initial_cwnd_packets=draw(st.integers(1, 4000)),
        mss_bytes=draw(st.integers(1, 1500)),
        # only a QUIC sender caches validated paths
        validation_cache=protocol is Protocol.QUIC_MIGRATION and draw(st.booleans()),
    )
    if equal:
        path = models[0]
        flight = sender.initial_cwnd_packets * sender.mss_bytes
        flight_us = max(path.rtt_us, -(-flight * 1_000_000 // path.bandwidth_bytes_per_s))
        step = (0 if sender.validation_cache else path.rtt_us) + flight_us
        period = draw(st.integers(max(1, step - 2), step + 2) | st.integers(1, 2 * step))
    else:
        period = draw(st.none() | st.integers(1, 300_000))
    most = max(1, int(20_000 * (1.0 - max(path.loss_rate for path in models)) ** 2))
    return models, sender, period, draw(st.integers(1, most)) * sender.mss_bytes


LOSSY = [PathModel(rtt_us=RTT, bandwidth_bytes_per_s=BW, loss_rate=0.01),
         PathModel(rtt_us=2 * RTT, bandwidth_bytes_per_s=BW, loss_rate=0.2)]
# no two alike in rtt, bandwidth or loss, and no rtt * bandwidth a
# multiple of 10**6
UNLIKE = [PathModel(rtt_us=10_007, bandwidth_bytes_per_s=2_000_003, loss_rate=0.02),
          PathModel(rtt_us=30_011, bandwidth_bytes_per_s=500_009, loss_rate=0.1),
          PathModel(rtt_us=70_001, bandwidth_bytes_per_s=12_500_001, loss_rate=0.005)]
# rtt * bandwidth = 1,500,500,000: 1500 bytes last one RTT (150,000 us
# to serialize) and 1501 bytes last 150,100 us
ONE_RTT_1500 = PathModel(rtt_us=150_050, bandwidth_bytes_per_s=10_000, loss_rate=0.01)


@given(transfer=transfers(), seed=st.integers(0, 2**40))
# QUIC restarts at 4,000 packets on every switch: a flight on the 20%-loss
# path crosses some 800 gaps, mid-block
@example(transfer=(LOSSY, SenderModel(Protocol.QUIC_MIGRATION, initial_cwnd_packets=4000),
                   60_000, 30 * MB), seed=0)
# loss 0.7 on one path: most gaps there are below 1 packet
@example(transfer=(LOSSY[:1] + [PathModel(loss_rate=0.7)], WG, 50_000, 5 * MB), seed=1)
# QUIC restarts every flight at 1501 bytes, one above the one-RTT size,
# and the last flight carries exactly that size, 1500 bytes
@example(transfer=([ONE_RTT_1500] * 2,
                   SenderModel(Protocol.QUIC_MIGRATION, initial_cwnd_packets=1, mss_bytes=1501),
                   1, 3 * 1501 + 1500), seed=2)
# a 1 us period: thousands of boundaries, many times the path count, pass
# inside each flight
@example(transfer=(UNLIKE, WG, 1, 2 * MB), seed=3)
# a lossless path between lossy ones draws nothing, and the lossy path
# after it draws a fresh gap
@example(transfer=([UNLIKE[0], PathModel(rtt_us=20_003, bandwidth_bytes_per_s=1_000_001),
                    UNLIKE[1]], WG, 15_000, 2 * MB), seed=4)
# every switch restarts QUIC at 10 packets, whatever the path's loss rate
@example(transfer=(UNLIKE, QUIC_CACHED, 20_000, 2 * MB), seed=5)
# equal paths, where each restart flight (50 ms) plus the next stall
# (50 ms) is a step: a period of one step takes the fast-forward, one
# microsecond more does not
@example(transfer=(paths(2, 0.01), QUIC, 2 * RTT, 2 * MB), seed=6)
@example(transfer=(paths(2, 0.01), QUIC, 2 * RTT + 1, 2 * MB), seed=6)
# lossless equal paths: an infinite gap, so only the bytes bound the run,
# and 2 MB leaves a last flight of 5,000 bytes
@example(transfer=(paths(3), QUIC, 20_000, 2 * MB), seed=7)
# the total is 30 flights of 15,000 bytes: the last restart flight ends
# the transfer, and no switch follows it
@example(transfer=(paths(2), QUIC, 5_000, 30 * 15_000), seed=8)
# a 150,000-byte initial window serializes for 120 ms, above the 62,500
# bytes of one RTT: the step is 170 ms
@example(transfer=(paths(2, 0.001), SenderModel(Protocol.QUIC_MIGRATION,
                                                initial_cwnd_packets=100),
                   170_000, 5 * MB), seed=9)
# cached, the step is one 50 ms flight once every path is validated; the
# third path is first validated at 250 ms, with restarts under way
@example(transfer=(paths(3, 0.01), QUIC_CACHED, 50_000, 2 * MB), seed=10)
@settings(max_examples=300)
def test_run_loses_what_the_packet_by_packet_oracle_loses(transfer, seed):
    paths_, sender, period, total_bytes = transfer
    stream = (seed, netsim._STREAM_NETSIM)
    expected = _reference_run(paths_, sender, period, total_bytes, netsim.stream_rng(*stream))
    assert netsim._run(paths_, sender, period, total_bytes, stream) == expected[:2]


def test_long_lossy_transfer_spans_several_blocks():
    sender = SenderModel(Protocol.QUIC_MIGRATION, mss_bytes=100, validation_cache=True)
    stream = (4, netsim._STREAM_NETSIM)
    t, acked, flights = _reference_run(LOSSY, sender, 70_000, 5 * MB,
                                       netsim.stream_rng(*stream))
    assert sum(losses for _, losses in flights) > 4 * netsim._UNIFORM_BLOCK  # a draw each
    assert netsim._run(LOSSY, sender, 70_000, 5 * MB, stream) == (t, acked)


@pytest.mark.parametrize("n, p", [(13, 0.01), (10, 0.2), (100, 0.05), (3, 0.7), (40, 0.6)])
def test_flight_losses_are_binomial(n, p):
    # QUIC restarts at n packets on every 1 us switch between two paths of
    # loss p, so every flight but the last few is n packets, and the gap
    # runs on across the switches
    sender = SenderModel(Protocol.QUIC_MIGRATION, initial_cwnd_packets=n)
    lossy = paths(2, p)
    total = int(4000 * n * (1 - p)) * sender.mss_bytes
    stream = (6, netsim._STREAM_NETSIM)
    t, acked, flights = _reference_run(lossy, sender, 1, total, netsim.stream_rng(*stream))
    assert netsim._run(lossy, sender, 1, total, stream) == (t, acked)
    assert max(losses for _, losses in flights) <= n
    counts = np.array([losses for packets, losses in flights if packets == n])
    assert len(counts) > 3900
    # within 4 standard errors of Binomial(n, p)'s mean, P(0) and variance
    q, m = 1 - p, len(counts)
    var = n * p * q
    fourth = var * (1 + 3 * p * q * (n - 2))  # the fourth central moment
    assert abs(counts.mean() - n * p) < 4 * math.sqrt(var / m)
    assert abs((counts == 0).mean() - q**n) < 4 * math.sqrt(q**n * (1 - q**n) / m) + 1e-9
    assert abs(counts.var() - var) < 4 * math.sqrt((fourth - var**2) / m)


@pytest.mark.parametrize("loss", [0.005, 0.01, 0.02])
def test_unswitched_throughput_tracks_mathis(loss):
    # Mathis et al. (CCR 1997): a Reno flow that loses a fraction p of its
    # packets moves MSS / RTT * sqrt(3/2) / sqrt(p) bytes per second
    mathis = 1500 / (RTT / 1e6) * math.sqrt(1.5) / math.sqrt(loss)
    runs = [simulate_transfer(paths(1, loss), WG, None, 20 * MB, seed) for seed in range(8)]
    mean = float(np.mean([run.throughput_bytes_per_s for run in runs]))
    assert mean == pytest.approx(mathis, rel=0.15)
