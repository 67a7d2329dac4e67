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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import exp, log1p, sqrt
from typing import Sequence

import numpy as np

from .rand import stream_rng

_STREAM_NETSIM = 401
_SSTHRESH_INF = float("inf")
# losses are drawn from blocks of this many uniforms
_UNIFORM_BLOCK = 1024
# numpy draws a binomial by inversion when p <= 0.5 and n*p <= this
_INVERSION_MAX_NP = 30.0

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
class PathModel:
    rtt_us: int = 50_000
    bandwidth_bytes_per_s: int = 1_250_000  # 10 Mbit/s
    loss_rate: float = 0.0

    def __post_init__(self):
        if self.rtt_us < 1:
            raise ValueError(f"rtt_us must be >= 1, got {self.rtt_us}")
        if self.bandwidth_bytes_per_s < 1:
            raise ValueError(
                f"bandwidth_bytes_per_s must be >= 1, got {self.bandwidth_bytes_per_s}"
            )
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")


@dataclass(frozen=True)
class SenderModel:
    protocol: Protocol
    initial_cwnd_packets: int = 10
    mss_bytes: int = 1500
    validation_cache: bool = False

    def __post_init__(self):
        if self.initial_cwnd_packets < 1:
            raise ValueError("initial_cwnd_packets must be >= 1")
        if self.mss_bytes < 1:
            raise ValueError("mss_bytes must be >= 1")


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
    switching = switch_period_us is not None and len(paths) > 1
    # per path: loss rate p, q = 1 - p, log q (numpy takes it as
    # log1p(-p)), and the largest n*p numpy draws by inversion (none when
    # p > 0.5)
    loss_terms = [
        (path.loss_rate, 1.0 - path.loss_rate, log1p(-path.loss_rate),
         _INVERSION_MAX_NP if path.loss_rate <= 0.5 else -1.0)
        for path in paths
    ]
    # cwnd/ssthresh are the active path's congestion state; on a switch
    # QUIC resets them (one connection-wide state) and WireGuard parks them
    # in cwnds/ssthreshes and resumes the new path's own
    cwnd = initial_cwnd
    ssthresh = _SSTHRESH_INF
    cwnds = [initial_cwnd] * len(paths)
    ssthreshes = [_SSTHRESH_INF] * len(paths)
    validated = {0}
    rtt = paths[0].rtt_us
    bandwidth = paths[0].bandwidth_bytes_per_s
    loss_rate, q, log_q, max_np = loss_terms[0]
    # the uniforms of the current block, how many are used, and the
    # generator state before the block
    uniforms: list[float] = []
    used = 0
    block_state = None

    t = 0
    acked = 0
    path_index = 0
    boundaries_done = 0
    while acked < total_bytes:
        if switching:
            due = t // switch_period_us
            if due > boundaries_done:
                if not quic:
                    cwnds[path_index] = cwnd
                    ssthreshes[path_index] = ssthresh
                path_index = (path_index + (due - boundaries_done)) % len(paths)
                boundaries_done = due
                path = paths[path_index]
                rtt = path.rtt_us
                bandwidth = path.bandwidth_bytes_per_s
                loss_rate, q, log_q, max_np = loss_terms[path_index]
                if quic:
                    if not (sender.validation_cache and path_index in validated):
                        t += rtt  # path validation stall
                    validated.add(path_index)
                    cwnd = initial_cwnd
                    ssthresh = _SSTHRESH_INF
                else:
                    cwnd = cwnds[path_index]
                    ssthresh = ssthreshes[path_index]

        # cwnd never falls below one MSS, so a flight is at least
        # min(mss, bytes left)
        flight = int(cwnd)
        if flight > total_bytes - acked:
            flight = total_bytes - acked
        n_packets = -(-flight // mss)
        if not loss_rate:
            losses = 0
        elif n_packets * loss_rate <= max_np:
            losses = 0
            qn = exp(n_packets * log_q)
            while True:
                if used == len(uniforms):
                    block_state = bit_generator.state
                    uniforms = rng.random(_UNIFORM_BLOCK).tolist()
                    used = 0
                u = uniforms[used]
                used += 1
                if u <= qn:
                    break
                losses = _inversion_tail(u, n_packets, loss_rate, q, qn)
                if losses:
                    break
        else:
            if used < len(uniforms):
                # hand the generator back at the first unused uniform
                bit_generator.state = block_state
                rng.random(used)
                uniforms = []
                used = 0
            losses = int(rng.binomial(n_packets, loss_rate))
        delivered = flight - losses * mss
        if delivered < 0:
            delivered = 0
        serialization = -(-flight * 1_000_000 // bandwidth)
        t += rtt if rtt >= serialization else serialization
        acked += delivered
        if losses:
            ssthresh = cwnd / 2.0
            if ssthresh < 2.0 * mss:
                ssthresh = 2.0 * mss
            cwnd = ssthresh  # at least 2 MSS, so above the 1-MSS floor
        elif cwnd < ssthresh:
            cwnd += delivered
        else:
            cwnd += mss * mss * n_packets / cwnd
    return t, acked


def simulate_transfer(
    paths: Sequence[PathModel],
    sender: SenderModel,
    switch_period_us: int | None,
    total_bytes: int,
    seed: int = 0,
) -> TransferResult:
    """Transfer total_bytes, switching paths every switch_period_us, or
    never when it is None."""
    if not paths:
        raise ValueError("need at least one path")
    if switch_period_us is not None and switch_period_us < 1:
        raise ValueError(f"switch_period_us must be >= 1, got {switch_period_us}")
    if total_bytes < sender.mss_bytes:
        raise ValueError("total_bytes must be at least one MSS")
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
    # any realistic repetition count
    return (int(seed) % 2**48) * 1_000_003 + rep
