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

overhead_fraction compares against a baseline run with switching disabled
on the same paths and seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .rand import stream_rng

_STREAM_NETSIM = 401
_SSTHRESH_INF = float("inf")

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
class OverheadResult:
    bytes_transferred: int
    elapsed_us: int
    throughput_bytes_per_s: float
    baseline_throughput_bytes_per_s: float
    overhead_fraction: float


@dataclass(frozen=True)
class SweepPoint:
    period_us: int
    mean_throughput_bps: float
    baseline_bps: float
    overhead_fraction: float
    stddev: float


class _CongestionState:
    __slots__ = ("cwnd", "ssthresh")

    def __init__(self, initial_cwnd_bytes: float):
        self.cwnd = initial_cwnd_bytes
        self.ssthresh = _SSTHRESH_INF

    def on_ack(self, delivered: int, acked_packets: int, mss: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += delivered
        else:
            self.cwnd += mss * mss * acked_packets / self.cwnd

    def on_loss(self, mss: int) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * mss)
        self.cwnd = max(self.ssthresh, float(mss))

    def reset(self, initial_cwnd_bytes: float) -> None:
        self.cwnd = initial_cwnd_bytes
        self.ssthresh = _SSTHRESH_INF


def _run(
    paths: Sequence[PathModel],
    sender: SenderModel,
    switch_period_us: int | None,
    total_bytes: int,
    seed_stream: tuple[int, ...],
) -> int:
    """Simulate one transfer; returns elapsed microseconds."""
    rng = stream_rng(*seed_stream)
    mss = sender.mss_bytes
    initial_cwnd = float(sender.initial_cwnd_packets * mss)
    quic = sender.protocol is Protocol.QUIC_MIGRATION
    states = [_CongestionState(initial_cwnd) for _ in paths]
    shared = _CongestionState(initial_cwnd)  # QUIC: one connection-wide state
    validated = {0}

    t = 0
    acked = 0
    path_index = 0
    boundaries_done = 0
    while acked < total_bytes:
        if switch_period_us is not None and len(paths) > 1:
            due = t // switch_period_us
            if due > boundaries_done:
                path_index = (path_index + (due - boundaries_done)) % len(paths)
                boundaries_done = due
                if quic:
                    if not (sender.validation_cache and path_index in validated):
                        t += paths[path_index].rtt_us  # path validation stall
                    validated.add(path_index)
                    shared.reset(initial_cwnd)
        path = paths[path_index]
        state = shared if quic else states[path_index]

        flight = min(int(state.cwnd), total_bytes - acked)
        flight = max(flight, min(mss, total_bytes - acked))
        n_packets = -(-flight // mss)
        losses = int(rng.binomial(n_packets, path.loss_rate)) if path.loss_rate else 0
        delivered = max(0, flight - losses * mss)
        t += max(
            path.rtt_us, -(-flight * 1_000_000 // path.bandwidth_bytes_per_s)
        )
        acked += delivered
        if losses:
            state.on_loss(mss)
        else:
            state.on_ack(delivered, n_packets, mss)
    return t


def simulate_transfer(
    paths: Sequence[PathModel],
    sender: SenderModel,
    switch_period_us: int | None,
    total_bytes: int,
    seed: int = 0,
) -> OverheadResult:
    """Transfer total_bytes under the switching schedule and compare with
    the unswitched baseline on the same paths and seed."""
    if not paths:
        raise ValueError("need at least one path")
    if switch_period_us is not None and switch_period_us < 1:
        raise ValueError(f"switch_period_us must be >= 1, got {switch_period_us}")
    if total_bytes < sender.mss_bytes:
        raise ValueError("total_bytes must be at least one MSS")

    stream = (seed, _STREAM_NETSIM)
    elapsed = _run(paths, sender, switch_period_us, total_bytes, stream)
    if switch_period_us is None:
        baseline_elapsed = elapsed
    else:
        baseline_elapsed = _run(paths, sender, None, total_bytes, stream)
    throughput = total_bytes * 1_000_000 / elapsed
    baseline = total_bytes * 1_000_000 / baseline_elapsed
    return OverheadResult(
        bytes_transferred=total_bytes,
        elapsed_us=elapsed,
        throughput_bytes_per_s=throughput,
        baseline_throughput_bytes_per_s=baseline,
        overhead_fraction=1.0 - throughput / baseline,
    )


def sweep_frequencies(
    paths: Sequence[PathModel],
    sender: SenderModel,
    periods_us: Sequence[int],
    total_bytes: int,
    repetitions: int = 10,
    seed: int = 0,
) -> list[SweepPoint]:
    """Mean overhead per switching period over seeded repetitions."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    points = []
    for period in periods_us:
        throughputs = []
        baselines = []
        for rep in range(repetitions):
            result = simulate_transfer(
                paths, sender, period, total_bytes, seed=_rep_seed(seed, rep)
            )
            throughputs.append(result.throughput_bytes_per_s)
            baselines.append(result.baseline_throughput_bytes_per_s)
        mean_thr = float(np.mean(throughputs))
        mean_base = float(np.mean(baselines))
        points.append(
            SweepPoint(
                period_us=int(period),
                mean_throughput_bps=mean_thr,
                baseline_bps=mean_base,
                overhead_fraction=1.0 - mean_thr / mean_base,
                stddev=float(np.std(throughputs)),
            )
        )
    return points


def compare_validation_caching(
    paths: Sequence[PathModel],
    periods_us: Sequence[int],
    total_bytes: int,
    seed: int = 0,
    sender: SenderModel | None = None,
) -> list[tuple[int, OverheadResult, OverheadResult]]:
    """Per period, the same transfer without and with cached validations."""
    if sender is None:
        sender = SenderModel(protocol=Protocol.QUIC_MIGRATION)
    if sender.protocol is not Protocol.QUIC_MIGRATION:
        raise ValueError("validation caching applies to the QUIC sender only")
    uncached_sender = replace(sender, validation_cache=False)
    cached_sender = replace(sender, validation_cache=True)
    pairs = []
    for period in periods_us:
        uncached = simulate_transfer(paths, uncached_sender, period, total_bytes, seed)
        cached = simulate_transfer(paths, cached_sender, period, total_bytes, seed)
        pairs.append((int(period), uncached, cached))
    return pairs


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
