"""Discrete-event bulk-transfer simulator under a path-switching schedule.

One sender pushes total_bytes through a sequence of congestion-window
flights (Reno-style slow start plus AIMD: any loss in a flight halves the
window). Flight duration is max(path RTT, serialization time at the path
bandwidth), losses are Bernoulli per packet, and everything is
deterministic under the seed.

Switch boundaries fall every switch_period_us; boundaries due by the end
of a flight take effect before the next one, and the path in use is the
number of boundaries due mod the path count. Protocol behavior on a switch:

* QuicMigration stalls for one RTT of the new path (path validation;
  skipped when validation caching is on and the path was validated
  before) and always resets its congestion state to the initial window.
* WireGuardRoaming keeps an independent persistent congestion state per
  path and never pauses.

simulate_transfer runs one transfer, unswitched when switch_period_us is
None; a sweep's baseline is that unswitched run, once per repetition.

Losses are drawn as geometric gaps from one stream of uniforms per
transfer, read 1024 at a time. The active path holds a gap, log(1 - u) /
log1p(-p) for a fresh uniform u: the packets it delivers before its next
loss, which falls on packet floor(gap) + 1. A flight of n <= gap packets
takes n off the gap; a longer flight loses one packet per gap it crosses
and draws the next gap at once. A switch to a path with another loss rate
draws a fresh gap, exact since losses are memoryless; a lossless path's
gap is infinite.

The flight loop recomputes nothing that depends only on the path. Each
transfer builds one tuple of constants per path, so a switch is one
unpack, and a flight lasts one RTT exactly when its bytes are at most
rtt * bandwidth // 10**6, so only longer flights divide. The next
boundary is a deadline, (boundaries due + 1) * period, which a flight
compares with the clock; the boundary count is divided out only once the
clock passes it. A flight that loses nothing costs one compare.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import count
from math import inf, log, log1p
from typing import Sequence

import numpy as np

from .config import Config, require
from .rand import SEED_LIMIT, stream_rng

_STREAM_NETSIM = 401
# losses are drawn from blocks of this many uniforms
_UNIFORM_BLOCK = 1024
# The largest lossless transfer a simulation takes, 10,000 MB; see
# max_total_bytes for lossy paths. A transfer costs one loop pass per
# flight. At 1% loss on a 50 ms, 10 Mbit/s path this size is 5.3e5
# flights unswitched (a window of 12.6 packets on average, near Mathis et
# al.'s 12.2) and 6.7e5 for QUIC switching every 5 ms, and a sweep runs
# (periods + 1) x repetitions transfers. An unbounded byte count, such as
# 1e306, would run for longer than anyone waits.
MAX_TOTAL_BYTES = 10_000 * 1_000_000

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
        require(self, "validation_cache",
                not self.validation_cache or self.protocol is Protocol.QUIC_MIGRATION,
                "False unless protocol is quic")


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


def _run(
    paths: Sequence[PathModel],
    sender: SenderModel,
    switch_period_us: int | None,
    total_bytes: int,
    seed_stream: tuple[int, ...],
) -> tuple[int, int]:
    """Simulate one transfer; returns (elapsed microseconds, bytes acked)."""
    rng = stream_rng(*seed_stream)
    # the transfer's uniforms, one at a time from blocks of _UNIFORM_BLOCK
    uniforms = (u for _ in count() for u in rng.random(_UNIFORM_BLOCK).tolist())
    mss = sender.mss_bytes
    initial_cwnd = float(sender.initial_cwnd_packets * mss)
    quic = sender.protocol is Protocol.QUIC_MIGRATION
    validation_cache = sender.validation_cache
    # per path: rtt, bandwidth, the largest flight that lasts one RTT
    # (rtt >= ceil(f * 10**6 / bw) exactly when f <= rtt * bw // 10**6),
    # loss rate p and log1p(-p), the divisor of a gap
    constants = [
        (path.rtt_us, path.bandwidth_bytes_per_s,
         path.rtt_us * path.bandwidth_bytes_per_s // 1_000_000,
         path.loss_rate, log1p(-path.loss_rate))
        for path in paths
    ]
    rtt, bandwidth, one_rtt_bytes, p, log_q = constants[0]
    # the packets the active path delivers before its next loss
    gap = log(1.0 - next(uniforms)) / log_q if p else inf
    # cwnd/ssthresh are the active path's congestion state; on a switch
    # QUIC resets them (one connection-wide state) and WireGuard parks them
    # in states and resumes the new path's own
    cwnd = initial_cwnd
    ssthresh = inf
    states = [(initial_cwnd, inf)] * len(paths)
    validated = {0}

    t = acked = path_index = 0
    # the next boundary falls due once t reaches next_switch, (boundaries
    # due + 1) * period; never unswitched or on one path
    next_switch = inf if switch_period_us is None or len(paths) == 1 else switch_period_us
    while acked < total_bytes:
        if t >= next_switch:
            due = t // switch_period_us
            if not quic:
                states[path_index] = (cwnd, ssthresh)
            path_index = due % len(paths)
            next_switch = (due + 1) * switch_period_us
            last_p = p
            rtt, bandwidth, one_rtt_bytes, p, log_q = constants[path_index]
            if p != last_p:
                gap = log(1.0 - next(uniforms)) / log_q if p else inf
            if quic:
                if not (validation_cache and path_index in validated):
                    t += rtt  # path validation stall
                validated.add(path_index)
                cwnd = initial_cwnd
                ssthresh = inf
            else:
                cwnd, ssthresh = states[path_index]

        # cwnd never falls below one MSS, so a flight is at least
        # min(mss, bytes left)
        flight = int(cwnd)
        if flight > total_bytes - acked:
            flight = total_bytes - acked
        n_packets = -(-flight // mss)
        t += rtt if flight <= one_rtt_bytes else -(-flight * 1_000_000 // bandwidth)
        if n_packets <= gap:
            gap -= n_packets
            acked += flight
            if cwnd < ssthresh:
                cwnd += flight
            else:
                cwnd += mss * mss * n_packets / cwnd
        else:
            # packet floor(gap) + 1 of those left is lost; at most n_packets
            losses = 0
            left = n_packets
            while left > gap:
                left -= int(gap) + 1
                losses += 1
                gap = log(1.0 - next(uniforms)) / log_q
            gap -= left
            if flight > losses * mss:
                acked += flight - losses * mss
            ssthresh = cwnd / 2.0
            if ssthresh < 2.0 * mss:
                ssthresh = 2.0 * mss
            cwnd = ssthresh  # at least 2 MSS, so above the 1-MSS floor
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
    never when it is None. seed lies in rand's range, [0, rand.SEED_LIMIT)."""
    if not paths:
        raise ValueError("need at least one path")
    if switch_period_us is not None and switch_period_us < 1:
        raise ValueError(f"switch_period_us must be >= 1, got {switch_period_us}")
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
    repetition's unswitched transfer is the baseline of every period.
    seed lies in rand's range, [0, rand.SEED_LIMIT); repetition r
    transfers on a seed drawn from the stream (seed, r), whatever the
    repetition count."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if len(periods_us) == 0:
        raise ValueError("need at least one switching period")
    if min(periods_us) < 1:  # before any transfer runs
        raise ValueError(f"switch_period_us must be >= 1, got {min(periods_us)}")
    seeds = [int(stream_rng(seed, _STREAM_NETSIM, rep).integers(SEED_LIMIT))
             for rep in range(repetitions)]
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

