"""Discrete-event bulk-transfer simulator under a path-switching schedule.

One sender pushes total_bytes through a sequence of congestion-window
flights (Reno-style slow start plus AIMD: any loss in a flight halves the
window). Flight duration is max(path RTT, serialization time at the path
bandwidth), losses are Bernoulli per packet, and everything is
deterministic under the seed.

Switch boundaries fall every switch_period_us; boundaries due by the end
of a flight take effect before the next one, rotating the active path
cyclically. Protocol behavior on a switch:

* QuicMigration stalls for one RTT of the new path (path validation;
  skipped when validation caching is on and the path was validated
  before) and always resets its congestion state to the initial window.
* WireGuardRoaming keeps an independent persistent congestion state per
  path and never pauses.

simulate_transfer runs one transfer, unswitched when switch_period_us is
None; a sweep's baseline is that unswitched run, once per repetition.

A flight's losses are Binomial(packets, loss rate), drawn the way
numpy's Generator.binomial draws them, and so the same under seed as one
binomial call per flight. Each transfer reads one stream of uniforms,
1024 at a time. Where numpy draws by inversion (Kachitvichyanukul &
Schmeiser, CACM 1988; p <= 0.5 and n*p <= 30) the flight applies numpy's
rule to that stream: no loss when u <= exp(n * log1p(-p)), which most
lossy flights meet; otherwise numpy's search for the count. Elsewhere the
generator is put back at the first unused uniform and Generator.binomial
draws.

The flight loop recomputes nothing that depends only on the path and the
window. Each transfer builds one tuple of constants per path, so a
switch is one unpack, and a flight lasts one RTT exactly when its bytes
are at most rtt * bandwidth // 10**6, so only longer flights divide. The
next boundary is a deadline, (boundaries done + 1) * period, which a
flight compares with the clock; the boundary count is divided out only
once the clock passes it. Each path keeps numpy's zero-loss threshold
exp(n * log1p(-p)) per window of n packets, so a lossy flight that loses
nothing costs one uniform and one compare.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import exp, inf, log1p, sqrt
from typing import Sequence

import numpy as np

from .config import Config, require
from .rand import stream_rng

_STREAM_NETSIM = 401
# losses are drawn from blocks of this many uniforms
_UNIFORM_BLOCK = 1024
# numpy draws a binomial by inversion when p <= 0.5 and n*p <= this
_INVERSION_MAX_NP = 30.0
# The largest lossless transfer a simulation takes, 10,000 MB; see
# max_total_bytes for lossy paths. A transfer costs one loop pass per
# flight. At 1% loss on a 50 ms, 10 Mbit/s path this size is 5.3e5
# flights unswitched (a window of 12.6 packets on average, near Mathis et
# al.'s 12.2) and 6.7e5 for QUIC switching every 5 ms, and a sweep runs
# (periods + 1) x repetitions transfers. An unbounded byte count, such as
# 1e306, would run for longer than anyone waits.
MAX_TOTAL_BYTES = 10_000 * 1_000_000
# sweep seeds lie below this: _rep_seed folds seeds mod this, so a
# larger seed would sweep the streams of a smaller one
SWEEP_SEED_LIMIT = 2**48

SWEEP_CSV_COLUMNS = (
    "period_us",
    "mean_throughput_bps",
    "baseline_bps",
    "overhead_fraction",
    "stddev",
)


class Protocol(str, enum.Enum):
    QUIC_MIGRATION = "quic"
    WIREGUARD_ROAMING = "wireguard"


@dataclass(frozen=True)
class PathModel(Config):
    rtt_us: int = 50_000
    bandwidth_bytes_per_s: int = 1_250_000  # 10 Mbit/s
    loss_rate: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        require(self, "rtt_us", self.rtt_us >= 1, ">= 1")
        require(self, "bandwidth_bytes_per_s", self.bandwidth_bytes_per_s >= 1, ">= 1")
        require(self, "loss_rate", 0 <= self.loss_rate < 1, "in [0, 1)")


@dataclass(frozen=True)
class SenderModel(Config):
    protocol: Protocol
    initial_cwnd_packets: int = 10
    mss_bytes: int = 1500
    validation_cache: bool = False

    def __post_init__(self):
        super().__post_init__()
        require(self, "initial_cwnd_packets", self.initial_cwnd_packets >= 1, ">= 1")
        require(self, "mss_bytes", self.mss_bytes >= 1, ">= 1")


@dataclass(frozen=True)
class TransferResult:
    bytes_transferred: int
    elapsed_us: int
    throughput_bytes_per_s: float


@dataclass(frozen=True)
class SweepPoint:
    period_us: int
    mean_throughput_bps: float
    baseline_bps: float
    overhead_fraction: float
    stddev: float


def _inversion_tail(u: float, n: int, p: float, q: float, qn: float) -> int:
    """Finish numpy's binomial inversion for a uniform u above qn (numpy's
    q**n): the count, or 0 when the search passes numpy's bound, in which
    case numpy restarts from the next uniform."""
    mean = n * p
    bound = int(min(n, mean + 10.0 * sqrt(mean * q + 1)))
    x = 0
    px = qn
    while u > px:
        x += 1
        if x > bound:
            return 0
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


def _run(
    paths: Sequence[PathModel],
    sender: SenderModel,
    switch_period_us: int | None,
    total_bytes: int,
    seed_stream: tuple[int, ...],
) -> tuple[int, int]:
    """Simulate one transfer; returns (elapsed microseconds, bytes acked)."""
    rng = stream_rng(*seed_stream)
    bit_generator = rng.bit_generator
    mss = sender.mss_bytes
    initial_cwnd = float(sender.initial_cwnd_packets * mss)
    quic = sender.protocol is Protocol.QUIC_MIGRATION
    validation_cache = sender.validation_cache
    # per path: rtt, bandwidth, the largest flight that lasts one RTT
    # (rtt >= ceil(f * 10**6 / bw) exactly when f <= rtt * bw // 10**6),
    # loss rate p, q = 1 - p, log q (numpy takes it as log1p(-p)), and a
    # dict from packet count n to numpy's zero-loss threshold qn, or to
    # None where numpy does not draw by inversion
    constants = [
        (path.rtt_us, path.bandwidth_bytes_per_s,
         path.rtt_us * path.bandwidth_bytes_per_s // 1_000_000,
         path.loss_rate, 1.0 - path.loss_rate, log1p(-path.loss_rate), {})
        for path in paths
    ]
    rtt, bandwidth, one_rtt_bytes, p, q, log_q, qns = constants[0]
    # cwnd/ssthresh are the active path's congestion state; on a switch
    # QUIC resets them (one connection-wide state) and WireGuard parks them
    # in cwnds/ssthreshes and resumes the new path's own
    cwnd = initial_cwnd
    ssthresh = inf
    cwnds = [initial_cwnd] * len(paths)
    ssthreshes = [inf] * len(paths)
    validated = {0}
    # the uniforms of the current block, how many are used (all before the
    # first block and after a hand-back), and the generator state before it
    uniforms: list[float] = []
    used = _UNIFORM_BLOCK
    block_state = None

    t = acked = path_index = boundaries_done = 0
    # boundaries fall due once t // period > boundaries_done, that is once
    # t >= (boundaries_done + 1) * period; never unswitched or on one path
    next_switch = inf if switch_period_us is None or len(paths) == 1 else switch_period_us
    while acked < total_bytes:
        if t >= next_switch:
            due = t // switch_period_us
            if not quic:
                cwnds[path_index] = cwnd
                ssthreshes[path_index] = ssthresh
            path_index = (path_index + (due - boundaries_done)) % len(paths)
            boundaries_done = due
            next_switch = (due + 1) * switch_period_us
            rtt, bandwidth, one_rtt_bytes, p, q, log_q, qns = constants[path_index]
            if quic:
                if not (validation_cache and path_index in validated):
                    t += rtt  # path validation stall
                validated.add(path_index)
                cwnd = initial_cwnd
                ssthresh = inf
            else:
                cwnd = cwnds[path_index]
                ssthresh = ssthreshes[path_index]

        # cwnd never falls below one MSS, so a flight is at least
        # min(mss, bytes left)
        flight = int(cwnd)
        if flight > total_bytes - acked:
            flight = total_bytes - acked
        n_packets = -(-flight // mss)
        losses = 0
        if p:
            try:
                qn = qns[n_packets]
            except KeyError:
                qn = qns[n_packets] = (
                    exp(n_packets * log_q)
                    if p <= 0.5 and n_packets * p <= _INVERSION_MAX_NP else None)
            if qn is not None:
                while True:
                    if used == _UNIFORM_BLOCK:
                        block_state = bit_generator.state
                        uniforms = rng.random(_UNIFORM_BLOCK).tolist()
                        used = 0
                    u = uniforms[used]
                    used += 1
                    if u <= qn:
                        break
                    losses = _inversion_tail(u, n_packets, p, q, qn)
                    if losses:
                        break
            else:
                if used < _UNIFORM_BLOCK:
                    # hand the generator back at the first unused uniform
                    bit_generator.state = block_state
                    rng.random(used)
                    used = _UNIFORM_BLOCK
                losses = int(rng.binomial(n_packets, p))
        t += rtt if flight <= one_rtt_bytes else -(-flight * 1_000_000 // bandwidth)
        if losses:
            if flight > losses * mss:
                acked += flight - losses * mss
            ssthresh = cwnd / 2.0
            if ssthresh < 2.0 * mss:
                ssthresh = 2.0 * mss
            cwnd = ssthresh  # at least 2 MSS, so above the 1-MSS floor
        else:
            acked += flight
            if cwnd < ssthresh:
                cwnd += flight
            else:
                cwnd += mss * mss * n_packets / cwnd
    return t, acked


def max_total_bytes(loss_rate: float) -> int:
    """The largest transfer taken over paths whose highest loss rate is
    loss_rate: MAX_TOTAL_BYTES * (1 - loss_rate).

    Lost packets are sent again, and after a flight's first loss the
    window never falls below 2 MSS, so the expected flight count stays
    below about MAX_TOTAL_BYTES / (2 MSS), 3.3e6 at a 1500-byte MSS, at
    any loss rate; at loss 0.99 a 10,000 MB transfer would take 3.5e8.
    """
    return int(MAX_TOTAL_BYTES * (1 - loss_rate))


def simulate_transfer(
    paths: Sequence[PathModel],
    sender: SenderModel,
    switch_period_us: int | None,
    total_bytes: int,
    seed: int = 0,
) -> TransferResult:
    """Transfer total_bytes, switching paths every switch_period_us, or
    never when it is None. seed lies in [0, 2**63), the seeds
    rand.stream_rng tells apart."""
    if not paths:
        raise ValueError("need at least one path")
    if switch_period_us is not None and switch_period_us < 1:
        raise ValueError(f"switch_period_us must be >= 1, got {switch_period_us}")
    if not 0 <= seed < 2**63:
        raise ValueError(f"seed must be in [0, {2**63}), got {seed}")
    if total_bytes < sender.mss_bytes:
        raise ValueError("total_bytes must be at least one MSS")
    loss = max(path.loss_rate for path in paths)
    cap = max_total_bytes(loss)
    if total_bytes > cap:
        at = f" at loss rate {loss}" if loss else ""
        raise ValueError(f"total_bytes must be at most {cap}{at}, got {total_bytes}")
    stream = (seed, _STREAM_NETSIM)
    elapsed, acked = _run(paths, sender, switch_period_us, total_bytes, stream)
    return TransferResult(
        bytes_transferred=acked,
        elapsed_us=elapsed,
        throughput_bytes_per_s=acked * 1_000_000 / elapsed,
    )


def sweep_frequencies(
    paths: Sequence[PathModel],
    sender: SenderModel,
    periods_us: Sequence[int],
    total_bytes: int,
    repetitions: int = 10,
    seed: int = 0,
) -> list[SweepPoint]:
    """Mean overhead per switching period over seeded repetitions; each
    repetition's unswitched transfer is the baseline of every period."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if len(periods_us) == 0:
        raise ValueError("need at least one switching period")
    if not 0 <= seed < SWEEP_SEED_LIMIT:
        raise ValueError(f"seed must be in [0, {SWEEP_SEED_LIMIT}), got {seed}")
    seeds = [_rep_seed(seed, rep) for rep in range(repetitions)]
    base = [simulate_transfer(paths, sender, None, total_bytes, s) for s in seeds]
    mean_base = float(np.mean([run.throughput_bytes_per_s for run in base]))
    points = []
    for period in periods_us:
        runs = [simulate_transfer(paths, sender, period, total_bytes, s) for s in seeds]
        throughputs = [run.throughput_bytes_per_s for run in runs]
        mean_thr = float(np.mean(throughputs))
        points.append(SweepPoint(
            period_us=int(period),
            mean_throughput_bps=mean_thr,
            baseline_bps=mean_base,
            overhead_fraction=1.0 - mean_thr / mean_base,
            stddev=float(np.std(throughputs)),
        ))
    return points


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for p in points:
        lines.append(
            f"{p.period_us},{p.mean_throughput_bps:.3f},{p.baseline_bps:.3f},"
            f"{p.overhead_fraction:.6f},{p.stddev:.3f}"
        )
    return "".join(line + "\n" for line in lines)


def _rep_seed(seed: int, rep: int) -> int:
    # fold (seed, repetition) into one stream id without collisions for
    # any realistic repetition count; taken mod 2**63 as stream_rng takes
    # it, so the id is a seed simulate_transfer takes and names the same stream
    return ((int(seed) % SWEEP_SEED_LIMIT) * 1_000_003 + rep) % 2**63
