import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    # stream_rng folds seeds mod 2**63: 2**63 once gave seed 0's transfer
    refusal = r"^seed must be in \[0, 9223372036854775808\), got"
    for bad in (-1, 2**63, 2**64):
        with pytest.raises(ValueError, match=refusal):
            simulate_transfer(paths(loss=0.01), WG, 10_000, 100_000, seed=bad)
    last = simulate_transfer(paths(loss=0.05), WG, 10_000, MB, seed=2**63 - 1)
    assert last != simulate_transfer(paths(loss=0.05), WG, 10_000, MB, seed=0)


def test_sweep_seeds_above_the_stream_range_fold_as_the_streams_do():
    # (2**48 - 1) * 1_000_003 passes 2**63; the sweep hands simulate_transfer
    # that id mod 2**63, the stream stream_rng reads for the unfolded id
    seed = 2**48 - 1
    rep_seed = netsim._rep_seed(seed, 1)
    assert rep_seed == (seed * 1_000_003 + 1) % 2**63 < seed * 1_000_003
    assert (netsim.stream_rng(rep_seed).random(4)
            == netsim.stream_rng(seed * 1_000_003 + 1).random(4)).all()


def test_sweep_refuses_seeds_its_streams_would_fold():
    # _rep_seed took seeds mod 2**48: 2**48 swept the bytes of seed 0
    for bad in (-1, 2**48, 2**48 + 7, 2**63):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 281474976710656\), got"):
            sweep_frequencies(paths(), WG, [10_000], 100_000, repetitions=1, seed=bad)
    last = sweep_frequencies(paths(loss=0.01), WG, [10_000], 100_000, repetitions=2,
                             seed=2**48 - 1)
    first = sweep_frequencies(paths(loss=0.01), WG, [10_000], 100_000, repetitions=2, seed=0)
    assert last != first


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


# --- losses: numpy's binomial inversion over one buffered uniform stream


def _reference_run(paths, sender, switch_period_us, total_bytes, rng):
    """_run as one Generator.binomial call per lossy flight: (elapsed us,
    bytes acked, binomial calls)."""
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
    t = acked = path_index = boundaries_done = draws = 0
    while acked < total_bytes:
        if switching and t // switch_period_us > boundaries_done:
            due = t // switch_period_us
            if not quic:
                cwnds[path_index] = cwnd
                ssthreshes[path_index] = ssthresh
            path_index = (path_index + (due - boundaries_done)) % len(paths)
            boundaries_done = due
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
        if path.loss_rate:
            losses = int(rng.binomial(n_packets, path.loss_rate))
            draws += 1
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
    return t, acked, draws


def _invert(rng, n, p):
    """One binomial(n, p) draw by numpy's inversion, as _run makes it."""
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    while True:
        u = rng.random()
        if u <= qn:
            return 0
        x = netsim._inversion_tail(u, n, p, q, qn)
        if x:
            return x


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
U_MAX = 1.0 - 2.0**-53  # the largest uniform Generator.random returns


def _rng_about_to_draw(u, seed=0):
    """A PCG64 Generator whose next uniform is u, a multiple of 2**-53.
    PCG64 steps its 128-bit state, then outputs the xor of the state's
    halves rotated by its top 6 bits; a state below 2**58 outputs itself."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    output = int(u * 2.0**53) << 11
    inverse = pow(_PCG64_MULTIPLIER, -1, 2**128)
    state["state"]["state"] = (output - state["state"]["inc"]) * inverse % 2**128
    rng.bit_generator.state = state
    return rng


@st.composite
def transfers(draw):
    """(paths, sender, switch period, total bytes): 1-4 paths of any loss
    below 0.99, windows up to 4,000 packets, and lengths kept to some
    20,000 segments, fewer the lossier the worst path."""
    losses = draw(st.lists(st.floats(0.0, 0.99, exclude_max=True), min_size=1, max_size=4))
    models = [
        PathModel(rtt_us=draw(st.integers(1, 200_000)),
                  bandwidth_bytes_per_s=draw(st.integers(10_000, 100_000_000)),
                  loss_rate=loss)
        for loss in losses
    ]
    sender = SenderModel(
        protocol=draw(st.sampled_from(Protocol)),
        initial_cwnd_packets=draw(st.integers(1, 4000)),
        mss_bytes=draw(st.integers(1, 1500)),
        validation_cache=draw(st.booleans()),
    )
    period = draw(st.none() | st.integers(1, 300_000))
    most = max(1, int(20_000 * (1.0 - max(losses)) ** 2))
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
# QUIC restarts at 4,000 packets on every switch: n*p = 800 > 30 on the
# 20%-loss path, mid-block
@example(transfer=(LOSSY, SenderModel(Protocol.QUIC_MIGRATION, initial_cwnd_packets=4000),
                   60_000, 30 * MB), seed=0)
# p > 0.5 on one path: every flight there hands the generator back
@example(transfer=(LOSSY[:1] + [PathModel(loss_rate=0.7)], WG, 50_000, 5 * MB), seed=1)
# QUIC restarts every flight at 1501 bytes, one above the one-RTT size,
# and the last flight carries exactly that size, 1500 bytes
@example(transfer=([ONE_RTT_1500] * 2,
                   SenderModel(Protocol.QUIC_MIGRATION, initial_cwnd_packets=1, mss_bytes=1501),
                   1, 3 * 1501 + 1500), seed=2)
# a 1 us period: thousands of boundaries, many times the path count, pass
# inside each flight
@example(transfer=(UNLIKE, WG, 1, 2 * MB), seed=3)
# a lossless path between lossy ones draws nothing
@example(transfer=([UNLIKE[0], PathModel(rtt_us=20_003, bandwidth_bytes_per_s=1_000_001),
                    UNLIKE[1]], WG, 15_000, 2 * MB), seed=4)
# every switch restarts QUIC at 10 packets, whatever the path's loss rate
@example(transfer=(UNLIKE, QUIC_CACHED, 20_000, 2 * MB), seed=5)
@settings(max_examples=300)
def test_run_draws_what_one_binomial_per_flight_draws(transfer, seed):
    paths_, sender, period, total_bytes = transfer
    stream = (seed, netsim._STREAM_NETSIM)
    expected = _reference_run(paths_, sender, period, total_bytes, netsim.stream_rng(*stream))
    assert netsim._run(paths_, sender, period, total_bytes, stream) == expected[:2]


@pytest.mark.parametrize("n, p", [
    (60, 0.5), (61, 0.5),  # n*p = 30 is inversion, 30.5 is not
    (3000, 0.01), (3001, 0.01),
    (10, math.nextafter(0.5, 1.0)),  # p just above 0.5: never inversion
])
def test_run_draws_what_binomial_draws_at_the_inversion_edges(n, p):
    # the first flight is n packets on a path of loss p
    lossy = [PathModel(rtt_us=RTT, bandwidth_bytes_per_s=BW, loss_rate=p),
             PathModel(rtt_us=RTT, bandwidth_bytes_per_s=BW, loss_rate=0.01)]
    sender = SenderModel(Protocol.QUIC_MIGRATION, initial_cwnd_packets=n)
    for seed in range(5):
        stream = (seed, netsim._STREAM_NETSIM)
        expected = _reference_run(lossy, sender, 40_000, 5 * MB, netsim.stream_rng(*stream))
        assert netsim._run(lossy, sender, 40_000, 5 * MB, stream) == expected[:2]


def test_long_lossy_transfer_spans_several_blocks():
    sender = SenderModel(Protocol.QUIC_MIGRATION, mss_bytes=100, validation_cache=True)
    stream = (4, netsim._STREAM_NETSIM)
    t, acked, draws = _reference_run(LOSSY, sender, 70_000, 5 * MB, netsim.stream_rng(*stream))
    assert draws > 4 * netsim._UNIFORM_BLOCK
    assert netsim._run(LOSSY, sender, 70_000, 5 * MB, stream) == (t, acked)


@given(n=st.integers(1, 4000), p=st.floats(0.0, 0.5), seed=st.integers(0, 2**32))
@example(n=60, p=0.5, seed=0)  # both edges: p = 0.5 and n*p = 30
@example(n=1, p=0.5, seed=1)
@example(n=3000, p=0.01, seed=2)  # n*p == 30.0 in floating point
@example(n=1500, p=0.02, seed=3)
@example(n=4000, p=5e-324, seed=4)
def test_inversion_draws_what_generator_binomial_draws(n, p, seed):
    assume(p > 0.0 and n * p <= netsim._INVERSION_MAX_NP)
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    assert [_invert(ours, n, p) for _ in range(20)] == [
        int(numpys.binomial(n, p)) for _ in range(20)
    ]
    assert ours.bit_generator.state == numpys.bit_generator.state


@pytest.mark.parametrize("n, p", [(1, 0.3), (2, 0.19190644748173094), (10, 0.01),
                                  (40, 0.0123), (300, 0.002)])
def test_inversion_takes_numpys_zero_loss_threshold(monkeypatch, n, p):
    # numpy compares the uniform with exp(n * log1p(-p)); for each of these
    # (n, p), exp(n * log(1 - p)) is another float
    qn = math.exp(n * math.log1p(-p))
    assert qn >= 0.5  # so qn and its neighbours are uniforms Generator.random returns
    assert _rng_about_to_draw(qn).binomial(n, p) == 0
    assert _rng_about_to_draw(math.nextafter(qn, 1.0)).binomial(n, p) > 0
    # a transfer whose first flight of n packets draws u
    lossy = [PathModel(rtt_us=RTT, bandwidth_bytes_per_s=BW, loss_rate=p)]
    sender = SenderModel(Protocol.WIREGUARD_ROAMING, initial_cwnd_packets=n)
    for u in (qn, math.nextafter(qn, 1.0)):
        assert _invert(_rng_about_to_draw(u), n, p) == _rng_about_to_draw(u).binomial(n, p)
        expected = _reference_run(lossy, sender, None, 2 * MB, _rng_about_to_draw(u))
        monkeypatch.setattr(netsim, "stream_rng", lambda *stream: _rng_about_to_draw(u))
        assert netsim._run(lossy, sender, None, 2 * MB, (0, 0)) == expected[:2]


def test_inversion_restarts_past_numpys_bound_as_numpy_does(monkeypatch):
    # at U_MAX the search runs past numpy's bound: numpy draws again
    n, p = 10, 0.1
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    assert netsim._inversion_tail(U_MAX, n, p, q, qn) == 0
    ours, numpys = _rng_about_to_draw(U_MAX), _rng_about_to_draw(U_MAX)
    assert _invert(ours, n, p) == numpys.binomial(n, p)
    assert ours.bit_generator.state == numpys.bit_generator.state
    # a transfer whose first flight of 10 packets draws U_MAX
    lossy = [PathModel(rtt_us=RTT, bandwidth_bytes_per_s=BW, loss_rate=p)] * 2
    expected = _reference_run(lossy, QUIC, RTT, MB, _rng_about_to_draw(U_MAX, seed=7))
    monkeypatch.setattr(netsim, "stream_rng", lambda *stream: _rng_about_to_draw(U_MAX, seed=7))
    assert netsim._run(lossy, QUIC, RTT, MB, (0, netsim._STREAM_NETSIM)) == expected[:2]
